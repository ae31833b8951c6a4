"""Level-synchronous BFS over shared memory (process backend).

The parent process runs the serial level loop
(:func:`repro.core.bfs.level_loop`) with a pool step: each level's edge
gather — the O(m) hot part — fans out to the worker pool.  Workers read the
graph from the pool's resident snapshot arena
(:meth:`~repro.parallel.pool.WorkerPool.resident`: copied once per snapshot,
not per call); this call's ``dist`` and ``frontier`` scratch live in a small
arena of their own, allocated without a source copy and unlinked on return.
The frontier (always sorted, as in the serial kernel) is
split into contiguous degree-balanced chunks (:func:`weighted_chunks`, the
paper's unbalanced-degree optimisation at partition granularity); each
worker runs the serial level body (:func:`repro.core.frontier.expand`) on
its chunk — gather from the shared CSR arrays, time-stamp filter,
not-yet-visited test against the shared ``dist`` array — and returns only
the chunk's first discoveries: one ``(neighbour, parent)`` pair per distinct
new vertex.  The parent concatenates the chunks *in order* and keeps each
vertex's earliest pair (:func:`repro.core.frontier.first_occurrence`): the
earliest chunk holding a vertex wins, which is the serial kernel's flattened
gather order, so distances, parents and per-level statistics are
bit-identical to the serial kernel at every worker count.

Bottom-up levels (:func:`repro.core.bfs.pull_step`, on snapshots stamped
symmetric) run inline in the parent on the shared ``dist`` view, with the
serial body; they are not fanned out.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.bfs import BFSResult, level_loop, pull_step
from repro.core.frontier import expand, first_occurrence
from repro.errors import VertexError
from repro.obs import METRICS, span
from repro.parallel.partition import weighted_chunks
from repro.parallel.pool import TaskSpec, WorkerPool, task
from repro.parallel.shm import ShmArena

__all__ = ["parallel_bfs"]


@task("bfs.level")
def _bfs_level(views: dict, payload: dict) -> dict:
    """One frontier chunk's first discoveries (worker side)."""
    frontier = views["frontier"][payload["lo"] : payload["hi"]]
    offsets, dist = views["offsets"], views["dist"]
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    slot = np.empty(dist.size, dtype=np.int64)  # scratch, touched only at candidates
    new, owners = expand(
        frontier, starts, counts, views["targets"], dist, slot, views.get("ts"), payload["ts_range"]
    )
    # Fresh arrays, not views of shared memory: the parent writes
    # dist/frontier after the round and the reply is pickled anyway.
    return {"nbrs": new, "reps": owners}


#: Levels scanning fewer edges than this run inline in the parent: a queue
#: round-trip costs more than the gather itself.  Small-world graphs have a
#: handful of wide levels (fanned out) and many narrow ones (inlined); the
#: result is identical either way — the inline path is the same numpy math.
SMALL_LEVEL_EDGES = 4096


def parallel_bfs(
    graph: CSRGraph,
    source: int,
    pool: WorkerPool,
    *,
    ts_range: tuple[int, int] | None = None,
    max_levels: int | None = None,
    small_level_edges: int = SMALL_LEVEL_EDGES,
) -> BFSResult:
    """Multiprocess BFS, bit-identical to :func:`repro.core.bfs.bfs`."""
    if not 0 <= source < graph.n:
        raise VertexError(f"source {source} out of range [0, {graph.n})")
    if ts_range is not None and graph.ts is None:
        raise VertexError("graph has no time-stamps; cannot filter by ts_range")
    resident = pool.resident(graph)
    parent = np.full(graph.n, -1, dtype=np.int64)
    slot = np.empty(graph.n, dtype=np.int64)  # merge scratch, touched only at candidates
    # This call's mutable state; ``frontier`` is scratch, at most n vertices per level.
    with ShmArena.allocate(
        {"dist": (np.int64, (graph.n,)), "frontier": (np.int64, (max(graph.n, 1),))}
    ) as arena:
        arenas = (resident, arena.descriptor)
        shared_dist = arena.view("dist")
        shared_frontier = arena.view("frontier")
        shared_dist[...] = -1
        shared_dist[source] = 0
        # ``dist`` is the live view during the traversal.
        res = BFSResult(source=source, dist=shared_dist, parent=parent, ts_range=ts_range)
        views = {  # inlined levels read the graph's own arrays
            "offsets": graph.offsets,
            "targets": graph.targets,
            "ts": graph.ts,
            "dist": shared_dist,
            "frontier": shared_frontier,
        }

        def step(frontier, starts, counts, total):
            shared_frontier[: frontier.size] = frontier
            if total <= small_level_edges or pool.workers == 1:
                outs = [_bfs_level(views, {"lo": 0, "hi": frontier.size, "ts_range": ts_range})]
            else:
                outs = pool.run_tasks(
                    [
                        TaskSpec("bfs.level", {"lo": lo, "hi": hi, "ts_range": ts_range},
                                 arenas=arenas)
                        for lo, hi in weighted_chunks(counts, pool.workers)
                    ]
                )
            nbrs = np.concatenate([o["nbrs"] for o in outs])
            first = first_occurrence(nbrs, slot)
            return nbrs[first], np.concatenate([o["reps"] for o in outs])[first]

        with span(
            "parallel.bfs",
            source=int(source),
            n=graph.n,
            workers=pool.workers,
            filtered=ts_range is not None,
        ) as sp:
            level_loop(res, np.array([source], dtype=np.int64), graph.offsets, step, max_levels,
                       pull_step(graph, shared_dist, ts_range))
            sp.set(
                levels=res.n_levels,
                reached=res.n_reached,
                edges_scanned=res.total_edges_scanned,
                arcs_touched=res.arcs_touched,
            )
        # Detach from shared memory before the arena is unlinked.
        res.dist = shared_dist.copy()
    METRICS.inc("bfs.runs")
    METRICS.inc("bfs.levels", res.n_levels)
    METRICS.inc("bfs.edges_scanned", res.total_edges_scanned)
    METRICS.inc("bfs.arcs_touched", res.arcs_touched)
    METRICS.inc("parallel.bfs_runs")
    return res
