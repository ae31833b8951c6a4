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
    src = views["src"][lo:hi]
    dst = views["dst"][lo:hi]
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
    pool.start()
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    dst = graph.targets
    fragments: list[list[dict]] = []
    arrays = {"src": src, "dst": dst, "labels": np.arange(n, dtype=np.int64)}
    with ShmArena.create(arrays) as arena:
        shared_labels = arena.view("labels")
        tasks = [
            TaskSpec("components.hook", {"lo": lo, "hi": hi}, arenas=(arena.descriptor,))
            for lo, hi in range_chunks(int(dst.size), pool.workers)
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

        with span("parallel.components", n=n, arcs=int(dst.size), workers=pool.workers) as sp:
            labels, passes, jumps, arcs_processed = hook_and_jump(
                n, pool_hook, int(dst.size), max_passes
            )
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
