"""Parallel connectivity queries over the shared link-cut forest.

The paper's observation for section 3.1 — *"the queries can be processed in
parallel, as they only involve memory reads"* — maps directly onto the
process backend: the forest's parent array and the query endpoints go into
one per-call arena (the forest is mutable, so nothing of it is resident;
the segment is unlinked on return and each worker unmaps it at its next
task), the query pairs are split into contiguous ranges, and each worker runs
:func:`repro.core.linkcut.chase_roots` — the chase behind
``findroot_batch``, on the tier the parent resolved — over its slice.  A
query's answer and its hop count depend only on its two endpoints' depths,
so partition boundaries change neither: answers concatenate back in
submission order and the hop total is the exact sum the serial batch would
have counted.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.linkcut import LinkCutForest, chase_roots
from repro.errors import GraphError
from repro.obs import METRICS, span
from repro.parallel.partition import range_chunks
from repro.parallel.pool import TaskSpec, WorkerPool, task
from repro.parallel.shm import ShmArena

__all__ = ["parallel_query_batch"]


@task("queries.connected")
def _queries_connected(views: dict, payload: dict) -> dict:
    """Answer one contiguous slice of the query batch (worker side)."""
    lo, hi = payload["lo"], payload["hi"]
    parent = views["parent"]
    us = views["us"][lo:hi]
    vs = views["vs"][lo:hi]
    ru, hops_u = chase_roots(parent, us, payload["tier"])
    rv, hops_v = chase_roots(parent, vs, payload["tier"])
    # Worker-side mirror of the oracle's parent-side ticks: the pool ships
    # these back as telemetry, so the parent's ``workers.connectivity.*``
    # rollup equals the serial backend's counters for the same batch.
    METRICS.inc("connectivity.queries", int(hi - lo))
    METRICS.inc("connectivity.hops", hops_u + hops_v)
    return {
        "connected": np.ascontiguousarray(ru == rv),
        "hops": hops_u + hops_v,
        "fragment": {"queries": int(hi - lo), "hops": hops_u + hops_v},
    }


def parallel_query_batch(
    forest: LinkCutForest,
    us: np.ndarray,
    vs: np.ndarray,
    pool: WorkerPool,
    *,
    fragments_out: list | None = None,
) -> tuple[np.ndarray, int]:
    """Answer ``(us[i], vs[i])`` connectivity queries with the pool.

    Returns ``(connected, hops)`` where ``connected`` is bit-identical to
    :meth:`LinkCutForest.connected_batch` and ``hops`` equals the pointer
    work the serial batch would have accumulated (each endpoint is chased
    exactly its depth, independent of partitioning).  The forest's ``hops``
    counter is advanced by the same amount so downstream profiles agree.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:
        raise GraphError("query endpoint arrays must be 1-D and equal length")
    for arr in (us, vs):
        if arr.size and (arr.min() < 0 or arr.max() >= forest.n):
            raise GraphError("query endpoint out of range")
    if us.size == 0:
        return np.zeros(0, dtype=bool), 0
    pool.start()
    arrays = {"parent": forest.parent, "us": us, "vs": vs}
    with ShmArena.create(arrays) as arena:
        tier = kernels.resolve_tier(forest)
        with span("parallel.query_batch", n_queries=int(us.size), workers=pool.workers) as sp:
            outs = pool.run_tasks(
                [
                    TaskSpec(
                        "queries.connected",
                        {"lo": lo, "hi": hi, "tier": tier},
                        arenas=(arena.descriptor,),
                    )
                    for lo, hi in range_chunks(int(us.size), pool.workers)
                ]
            )
            connected = np.concatenate([o["connected"] for o in outs])
            hops = int(sum(o["hops"] for o in outs))
            sp.set(hops=hops)
    if fragments_out is not None:
        fragments_out.extend(o["fragment"] for o in outs)
    forest.hops += hops
    METRICS.inc("parallel.query_batches")
    return connected, hops
